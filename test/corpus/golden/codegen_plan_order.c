/* generated by polychrony-aadl from process order */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static long sdiv(long a, long b){ if(!b){fprintf(stderr,"division by zero\n");exit(2);} return a/b; }
static long smod(long a, long b){ if(!b){fprintf(stderr,"modulo by zero\n");exit(2);} return a%b; }

static long v_0; /* x0 */
static long v_1; /* x1 */
static long v_2; /* x2 */
static long v_3; /* x3 */
static long v_4; /* x4 */
static long v_5; /* x5 */
static long v_6; /* x6 */
static long v_7; /* x7 */
static long v_8; /* x8 */
static long v_9; /* x9 */
static long v_10; /* x10 */
static long v_11; /* x11 */
static long v_12; /* y0 */
static long v_13; /* y1 */
static long v_14; /* y2 */
static long v_15; /* y3 */
static long v_16; /* y4 */
static long v_17; /* y5 */
static long v_18; /* y6 */
static long v_19; /* y7 */
static long v_20; /* y8 */
static long v_21; /* y9 */
static long v_22; /* y10 */
static long v_23; /* y11 */
static long v_24; /* _t1 */
static long v_25; /* _t2 */
static long v_26; /* _t3 */
static long v_27; /* _t4 */
static long v_28; /* _t5 */
static long v_29; /* _t6 */
static long v_30; /* _t7 */
static long v_31; /* _t8 */
static long v_32; /* _t9 */
static long v_33; /* _t10 */
static long v_34; /* _t11 */
static long v_35; /* _t12 */
static int p_0;
static int p_1;
static int p_2;
static int p_3;
static int p_4;
static int p_5;
static int p_6;
static int p_7;
static int p_8;
static int p_9;
static int p_10;
static int p_11;

static void qpush(long*buf,int cap,int*len,int*head,int policy,long x){
  if(*len >= cap){
    if(policy==0){ buf[*head]= 0; *head=(*head+1)%cap; (*len)--; }
    else if(policy==1){ return; }
    else { fprintf(stderr,"queue overflow\n"); exit(3); }
  }
  buf[(*head + *len) % cap] = x; (*len)++;
}
static long qpeek(long*buf,int cap,int head){ (void)cap; return buf[head]; }
static void qpop(int cap,int*len,int*head){ if(*len>0){ *head=(*head+1)%cap; (*len)--; } }

static int in_p[12]; static double in_raw[12];

static void step(void){
  p_9 = in_p[9];
  if (p_9) v_9 = (long)in_raw[9];
  if (p_9) v_33 = (v_9 + 1);
  if (p_9) v_21 = v_33;
  p_8 = in_p[8];
  if (p_8) v_8 = (long)in_raw[8];
  if (p_8) v_32 = (v_8 + 1);
  if (p_8) v_20 = v_32;
  p_7 = in_p[7];
  if (p_7) v_7 = (long)in_raw[7];
  if (p_7) v_31 = (v_7 + 1);
  if (p_7) v_19 = v_31;
  p_6 = in_p[6];
  if (p_6) v_6 = (long)in_raw[6];
  if (p_6) v_30 = (v_6 + 1);
  if (p_6) v_18 = v_30;
  p_5 = in_p[5];
  if (p_5) v_5 = (long)in_raw[5];
  if (p_5) v_29 = (v_5 + 1);
  if (p_5) v_17 = v_29;
  p_4 = in_p[4];
  if (p_4) v_4 = (long)in_raw[4];
  if (p_4) v_28 = (v_4 + 1);
  if (p_4) v_16 = v_28;
  p_3 = in_p[3];
  if (p_3) v_3 = (long)in_raw[3];
  if (p_3) v_27 = (v_3 + 1);
  if (p_3) v_15 = v_27;
  p_2 = in_p[2];
  if (p_2) v_2 = (long)in_raw[2];
  if (p_2) v_26 = (v_2 + 1);
  if (p_2) v_14 = v_26;
  p_11 = in_p[11];
  if (p_11) v_11 = (long)in_raw[11];
  if (p_11) v_35 = (v_11 + 1);
  if (p_11) v_23 = v_35;
  p_10 = in_p[10];
  if (p_10) v_10 = (long)in_raw[10];
  if (p_10) v_34 = (v_10 + 1);
  if (p_10) v_22 = v_34;
  p_1 = in_p[1];
  if (p_1) v_1 = (long)in_raw[1];
  if (p_1) v_25 = (v_1 + 1);
  if (p_1) v_13 = v_25;
  p_0 = in_p[0];
  if (p_0) v_0 = (long)in_raw[0];
  if (p_0) v_24 = (v_0 + 1);
  if (p_0) v_12 = v_24;
}

int main(void){
  char line[1 << 16];
  while (fgets(line, sizeof line, stdin)) {
    char *tok = strtok(line, " \t\r\n");
    for (int k = 0; k < 12; k++) {
      if (!tok || (tok[0]=='-' && tok[1]==0)) { in_p[k]=0; in_raw[k]=0; }
      else { in_p[k]=1; in_raw[k]=strtod(tok, 0); }
      if (tok) tok = strtok(0, " \t\r\n");
    }
    step();
    if (p_0) printf("x0=%ld ", v_0);
    if (p_1) printf("x1=%ld ", v_1);
    if (p_2) printf("x2=%ld ", v_2);
    if (p_3) printf("x3=%ld ", v_3);
    if (p_4) printf("x4=%ld ", v_4);
    if (p_5) printf("x5=%ld ", v_5);
    if (p_6) printf("x6=%ld ", v_6);
    if (p_7) printf("x7=%ld ", v_7);
    if (p_8) printf("x8=%ld ", v_8);
    if (p_9) printf("x9=%ld ", v_9);
    if (p_10) printf("x10=%ld ", v_10);
    if (p_11) printf("x11=%ld ", v_11);
    if (p_0) printf("y0=%ld ", v_12);
    if (p_1) printf("y1=%ld ", v_13);
    if (p_2) printf("y2=%ld ", v_14);
    if (p_3) printf("y3=%ld ", v_15);
    if (p_4) printf("y4=%ld ", v_16);
    if (p_5) printf("y5=%ld ", v_17);
    if (p_6) printf("y6=%ld ", v_18);
    if (p_7) printf("y7=%ld ", v_19);
    if (p_8) printf("y8=%ld ", v_20);
    if (p_9) printf("y9=%ld ", v_21);
    if (p_10) printf("y10=%ld ", v_22);
    if (p_11) printf("y11=%ld ", v_23);
    if (p_0) printf("_t1=%ld ", v_24);
    if (p_1) printf("_t2=%ld ", v_25);
    if (p_2) printf("_t3=%ld ", v_26);
    if (p_3) printf("_t4=%ld ", v_27);
    if (p_4) printf("_t5=%ld ", v_28);
    if (p_5) printf("_t6=%ld ", v_29);
    if (p_6) printf("_t7=%ld ", v_30);
    if (p_7) printf("_t8=%ld ", v_31);
    if (p_8) printf("_t9=%ld ", v_32);
    if (p_9) printf("_t10=%ld ", v_33);
    if (p_10) printf("_t11=%ld ", v_34);
    if (p_11) printf("_t12=%ld ", v_35);
    printf("\n");
  }
  return 0;
}
